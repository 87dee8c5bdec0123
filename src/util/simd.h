// SIMD primitives of the vectorized execution layer: dense bitmask
// filters over columnar data, selection-vector compaction, and gathers.
//
// There is one vector backend, SSE2 (4 x u32 lanes; u64 equality is
// built from 32-bit compares), because SSE2 is the x86-64 baseline and
// every build compiles for that baseline. Other targets use the scalar
// loops. Each filter also exists as a scalar reference under
// simd::scalar, which the unit tests compare the backend against on
// randomized inputs (including the non-multiple-of-lane-width tails).
//
// Why SSE2 and not scalar: on 192-entry leaves at -O2 the SSE2 filter
// costs 2.1 ns/row against 12.6 ns/row for the scalar loop (3.4 ns/row
// for a word-at-a-time scalar rewrite), and running the scalar
// reference in its place raised perfbench query p50 by 24% on
// live-ingest and by 10% on wiki-mix (medians of 5 alternating 15 s
// pairs on a shared 4-vCPU x86-64 Xeon host).
// Why not wider: AVX2 needs -mavx2, which no shipped build passes, so
// a wider backend would need runtime dispatch and a measured gain.
//
// All filters produce little-endian bitmasks: bit (i % 64) of word
// mask[i / 64] corresponds to row i. Masks compose with plain bitwise
// AND, which is what the And* variants do in place, so a scan builds one
// mask from several predicates and pays a single compaction pass at the
// end (MaskToSelection). Tail bits at positions >= n are always written
// as zero and never set by And* refinements.
#ifndef RDFTX_UTIL_SIMD_H_
#define RDFTX_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define RDFTX_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace rdftx::simd {

/// Active backend, for bench/report labelling.
#if defined(RDFTX_SIMD_SSE2)
inline constexpr const char* kBackend = "sse2";
#else
inline constexpr const char* kBackend = "scalar";
#endif

/// Number of 64-bit words a mask over `n` rows occupies.
inline constexpr size_t MaskWords(size_t n) { return (n + 63) / 64; }

// ---------------------------------------------------------------------------
// Scalar reference implementations. Always compiled; non-x86 targets
// use them as the backend, and the unit tests use them as the ground
// truth.
// ---------------------------------------------------------------------------

namespace scalar {

/// mask[i] = start[i] < qe && end[i] > qs && start[i] < end[i].
/// The query interval [qs, qe) must be non-empty (callers check once);
/// per-row empty intervals never match, mirroring Interval::Overlaps.
inline void OverlapMask(const uint32_t* start, const uint32_t* end, size_t n,
                        uint32_t qs, uint32_t qe, uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(n); ++w) mask[w] = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = start[i] < qe && end[i] > qs && start[i] < end[i];
    mask[i / 64] |= static_cast<uint64_t>(hit) << (i % 64);
  }
}

/// mask &= (col[i] == c).
inline void AndEqMask64(const uint64_t* col, size_t n, uint64_t c,
                        uint64_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    if (col[i] != c) mask[i / 64] &= ~(1ull << (i % 64));
  }
}

/// mask &= (x[i] == y[i]) — repeated-variable consistency.
inline void AndColEqMask64(const uint64_t* x, const uint64_t* y, size_t n,
                           uint64_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] != y[i]) mask[i / 64] &= ~(1ull << (i % 64));
  }
}

/// Compacts a bitmask into a selection vector of row indices; returns
/// the number of selected rows. `sel` must have room for n entries.
inline size_t MaskToSelection(const uint64_t* mask, size_t n, uint32_t* sel) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    if (mask[i / 64] & (1ull << (i % 64))) {
      sel[out++] = static_cast<uint32_t>(i);
    }
  }
  return out;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Filters: the SSE2 backend, or the scalar references elsewhere.
// ---------------------------------------------------------------------------

#if defined(RDFTX_SIMD_SSE2)

namespace detail {
/// Unsigned 32-bit a < b per lane: flip the sign bit, signed compare.
inline __m128i CmpLtU32(__m128i a, __m128i b) {
  const __m128i flip = _mm_set1_epi32(static_cast<int>(0x80000000u));
  return _mm_cmpgt_epi32(_mm_xor_si128(b, flip), _mm_xor_si128(a, flip));
}
/// 64-bit lane equality out of 32-bit compares: both halves must match.
inline __m128i CmpEq64(__m128i a, __m128i b) {
  const __m128i eq32 = _mm_cmpeq_epi32(a, b);
  return _mm_and_si128(eq32,
                       _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
}
}  // namespace detail

inline void OverlapMask(const uint32_t* start, const uint32_t* end, size_t n,
                        uint32_t qs, uint32_t qe, uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(n); ++w) mask[w] = 0;
  const __m128i vqs = _mm_set1_epi32(static_cast<int>(qs));
  const __m128i vqe = _mm_set1_epi32(static_cast<int>(qe));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(start + i));
    const __m128i e =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(end + i));
    __m128i hit =
        _mm_and_si128(detail::CmpLtU32(s, vqe), detail::CmpLtU32(vqs, e));
    hit = _mm_and_si128(hit, detail::CmpLtU32(s, e));
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(hit)));
    mask[i / 64] |= static_cast<uint64_t>(bits) << (i % 64);
  }
  for (; i < n; ++i) {
    const bool hit = start[i] < qe && end[i] > qs && start[i] < end[i];
    mask[i / 64] |= static_cast<uint64_t>(hit) << (i % 64);
  }
}

inline void AndEqMask64(const uint64_t* col, size_t n, uint64_t c,
                        uint64_t* mask) {
  const __m128i vc = _mm_set1_epi64x(static_cast<int64_t>(c));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i));
    const __m128i eq = detail::CmpEq64(v, vc);
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(eq)));
    mask[i / 64] &= ~(static_cast<uint64_t>(0x3 ^ bits) << (i % 64));
  }
  for (; i < n; ++i) {
    if (col[i] != c) mask[i / 64] &= ~(1ull << (i % 64));
  }
}

inline void AndColEqMask64(const uint64_t* x, const uint64_t* y, size_t n,
                           uint64_t* mask) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i vx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i vy =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + i));
    const __m128i eq = detail::CmpEq64(vx, vy);
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(eq)));
    mask[i / 64] &= ~(static_cast<uint64_t>(0x3 ^ bits) << (i % 64));
  }
  for (; i < n; ++i) {
    if (x[i] != y[i]) mask[i / 64] &= ~(1ull << (i % 64));
  }
}

#else

using scalar::AndColEqMask64;
using scalar::AndEqMask64;
using scalar::OverlapMask;

#endif

/// Selection-vector compaction from a bitmask. Word-at-a-time bit
/// iteration (ctz) beats the reference's per-row branch.
inline size_t MaskToSelection(const uint64_t* mask, size_t n, uint32_t* sel) {
  size_t out = 0;
  const size_t words = MaskWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t m = mask[w];
    const uint32_t base = static_cast<uint32_t>(w * 64);
    while (m != 0) {
      const uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(m));
      sel[out++] = base + bit;
      m &= m - 1;
    }
  }
  return out;
}

/// dst[i] = src[sel[i]]. SSE2 has no gather instruction, so a plain
/// loop serves every target.
inline void Gather64(const uint64_t* src, const uint32_t* sel, size_t n,
                     uint64_t* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[sel[i]];
}

inline void Gather32(const uint32_t* src, const uint32_t* sel, size_t n,
                     uint32_t* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[sel[i]];
}

}  // namespace rdftx::simd

#endif  // RDFTX_UTIL_SIMD_H_
