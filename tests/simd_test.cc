// Tests for util/simd.h: the active backend (sse2, or scalar off x86)
// must agree with the simd::scalar reference on randomized inputs,
// including lengths that are not multiples of the vector width so the
// remainder-tail lanes are exercised.
#include "util/simd.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace rdftx::simd {
namespace {

// Lengths chosen to hit empty input, sub-vector, exact multiples of
// every lane width in use (2/4), and ragged tails across word
// boundaries of the 64-bit mask.
constexpr size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,   8,   9,
                               15, 16, 17, 31, 63,  64,  65,  100, 127,
                               128, 129, 255, 256, 1000, 1024};

std::vector<uint64_t> RandomU64(Rng* rng, size_t n, uint64_t domain) {
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng->Uniform(domain);
  return v;
}

std::vector<uint32_t> RandomU32(Rng* rng, size_t n, uint32_t domain) {
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = static_cast<uint32_t>(rng->Uniform(domain));
  return v;
}

// Mask buffers sized with a canary word past the end so an
// out-of-bounds write by a backend is caught.
struct MaskBuf {
  explicit MaskBuf(size_t n) : words(MaskWords(n) + 1, 0xABABABABABABABABull) {}
  uint64_t* data() { return words.data(); }
  uint64_t canary() const { return words.back(); }
  std::vector<uint64_t> words;
};

void ExpectMasksEqual(const MaskBuf& got, const MaskBuf& want, size_t n,
                      const char* what) {
  ASSERT_EQ(got.words.size(), want.words.size());
  for (size_t w = 0; w + 1 < got.words.size(); ++w) {
    EXPECT_EQ(got.words[w], want.words[w])
        << what << ": word " << w << " of mask over n=" << n;
  }
  EXPECT_EQ(got.canary(), 0xABABABABABABABABull) << what << ": overwrote past "
                                                 << MaskWords(n) << " words";
}

TEST(SimdTest, BackendIsNamed) {
  // Every x86-64 build must pick SSE2: a broken #if would fall back to
  // the scalar loops silently, and those cost about a quarter of
  // live-ingest query p50.
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_STREQ(kBackend, "sse2");
#else
  EXPECT_STREQ(kBackend, "scalar");
#endif
}

TEST(SimdTest, OverlapMaskMatchesScalar) {
  Rng rng(42);
  for (size_t n : kLengths) {
    for (int iter = 0; iter < 8; ++iter) {
      // Small time domain so starts/ends straddle the query bounds
      // often; ~1/8 of rows are deliberately empty (start >= end).
      auto start = RandomU32(&rng, n, 1000);
      auto end = RandomU32(&rng, n, 1000);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.5)) end[i] = start[i] + end[i] % 50;
      }
      const uint32_t qs = static_cast<uint32_t>(rng.Uniform(1000));
      const uint32_t qe = qs + 1 + static_cast<uint32_t>(rng.Uniform(200));
      MaskBuf got(n), want(n);
      OverlapMask(start.data(), end.data(), n, qs, qe, got.data());
      scalar::OverlapMask(start.data(), end.data(), n, qs, qe, want.data());
      ExpectMasksEqual(got, want, n, "OverlapMask");
      // Tail bits past n must stay zero so downstream ANDs are safe.
      if (n % 64 != 0) {
        EXPECT_EQ(got.words[MaskWords(n) - 1] >> (n % 64), 0u);
      }
    }
  }
}

TEST(SimdTest, OverlapMaskBoundaryValues) {
  // Values around the unsigned sign bit, where a naive signed compare
  // would flip the verdict.
  const std::vector<uint32_t> start = {0, 0x7FFFFFFFu, 0x80000000u,
                                       0xFFFFFFFEu, 5, 10};
  const std::vector<uint32_t> end = {0xFFFFFFFFu, 0x80000001u, 0x80000002u,
                                     0xFFFFFFFFu, 5, 9};
  const size_t n = start.size();
  MaskBuf got(n), want(n);
  OverlapMask(start.data(), end.data(), n, 0x7FFFFFFFu, 0x80000005u,
              got.data());
  scalar::OverlapMask(start.data(), end.data(), n, 0x7FFFFFFFu, 0x80000005u,
                      want.data());
  ExpectMasksEqual(got, want, n, "OverlapMask boundary");
}

TEST(SimdTest, AndEqMask64MatchesScalar) {
  Rng rng(43);
  for (size_t n : kLengths) {
    for (int iter = 0; iter < 8; ++iter) {
      // Tiny id domain => plenty of equality hits.
      auto col = RandomU64(&rng, n, 8);
      const uint64_t c = rng.Uniform(8);
      MaskBuf got(n), want(n);
      // Start from a random mask to verify AND-refinement semantics.
      for (size_t w = 0; w < MaskWords(n); ++w) {
        got.words[w] = want.words[w] = rng.Next();
      }
      AndEqMask64(col.data(), n, c, got.data());
      scalar::AndEqMask64(col.data(), n, c, want.data());
      ExpectMasksEqual(got, want, n, "AndEqMask64");
    }
  }
}

TEST(SimdTest, AndColEqMask64MatchesScalar) {
  Rng rng(44);
  for (size_t n : kLengths) {
    for (int iter = 0; iter < 8; ++iter) {
      auto x = RandomU64(&rng, n, 6);
      auto y = RandomU64(&rng, n, 6);
      MaskBuf got(n), want(n);
      for (size_t w = 0; w < MaskWords(n); ++w) {
        got.words[w] = want.words[w] = rng.Next();
      }
      AndColEqMask64(x.data(), y.data(), n, got.data());
      scalar::AndColEqMask64(x.data(), y.data(), n, want.data());
      ExpectMasksEqual(got, want, n, "AndColEqMask64");
    }
  }
}

TEST(SimdTest, MaskToSelectionMatchesScalar) {
  Rng rng(46);
  for (size_t n : kLengths) {
    for (int iter = 0; iter < 8; ++iter) {
      MaskBuf mask(n);
      for (size_t w = 0; w < MaskWords(n); ++w) mask.words[w] = rng.Next();
      // Zero the tail bits the way every producer in simd.h guarantees.
      if (n % 64 != 0 && MaskWords(n) > 0) {
        mask.words[MaskWords(n) - 1] &= (1ull << (n % 64)) - 1;
      }
      std::vector<uint32_t> got(n + 1, 0xDEADBEEFu);
      std::vector<uint32_t> want(n + 1, 0xDEADBEEFu);
      const size_t got_n = MaskToSelection(mask.data(), n, got.data());
      const size_t want_n =
          scalar::MaskToSelection(mask.data(), n, want.data());
      ASSERT_EQ(got_n, want_n) << "n=" << n;
      for (size_t i = 0; i < got_n; ++i) {
        EXPECT_EQ(got[i], want[i]) << "sel[" << i << "] of n=" << n;
      }
      EXPECT_EQ(got[n], 0xDEADBEEFu);  // no overflow past n entries
    }
  }
}

TEST(SimdTest, MaskToSelectionAllAndNone) {
  for (size_t n : kLengths) {
    MaskBuf all(n);
    for (size_t w = 0; w < MaskWords(n); ++w) all.words[w] = ~0ull;
    if (n % 64 != 0 && MaskWords(n) > 0) {
      all.words[MaskWords(n) - 1] &= (1ull << (n % 64)) - 1;
    }
    std::vector<uint32_t> sel(n + 1);
    EXPECT_EQ(MaskToSelection(all.data(), n, sel.data()), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(sel[i], i);

    MaskBuf none(n);
    for (size_t w = 0; w < MaskWords(n); ++w) none.words[w] = 0;
    EXPECT_EQ(MaskToSelection(none.data(), n, sel.data()), 0u);
  }
}

TEST(SimdTest, Gather64MatchesScalar) {
  Rng rng(47);
  for (size_t n : kLengths) {
    const size_t src_n = n + 16;
    auto src = RandomU64(&rng, src_n, ~0ull);
    auto sel = RandomU32(&rng, n, static_cast<uint32_t>(src_n));
    std::vector<uint64_t> got(n + 1, 0xCAFEBABEull);
    std::vector<uint64_t> want(n + 1, 0xCAFEBABEull);
    Gather64(src.data(), sel.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = src[sel[i]];
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "i=" << i << " n=" << n;
    }
    EXPECT_EQ(got[n], 0xCAFEBABEull);
  }
}

TEST(SimdTest, Gather32MatchesScalar) {
  Rng rng(48);
  for (size_t n : kLengths) {
    const size_t src_n = n + 16;
    auto src = RandomU32(&rng, src_n, ~0u);
    auto sel = RandomU32(&rng, n, static_cast<uint32_t>(src_n));
    std::vector<uint32_t> got(n + 1, 0xCAFEBABEu);
    std::vector<uint32_t> want(n + 1, 0xCAFEBABEu);
    Gather32(src.data(), sel.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = src[sel[i]];
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "i=" << i << " n=" << n;
    }
    EXPECT_EQ(got[n], 0xCAFEBABEu);
  }
}

// End-to-end composition the scan uses: overlap filter, then id
// equality refinement, then compaction, then gather.
TEST(SimdTest, FilterCompactGatherPipeline) {
  Rng rng(49);
  const size_t n = 777;
  auto ids = RandomU64(&rng, n, 5);
  auto start = RandomU32(&rng, n, 100);
  std::vector<uint32_t> end(n);
  for (size_t i = 0; i < n; ++i) {
    end[i] = start[i] + static_cast<uint32_t>(rng.Uniform(30));
  }
  MaskBuf mask(n);
  OverlapMask(start.data(), end.data(), n, 20, 60, mask.data());
  AndEqMask64(ids.data(), n, 3, mask.data());
  std::vector<uint32_t> sel(n);
  const size_t k = MaskToSelection(mask.data(), n, sel.data());
  std::vector<uint64_t> out_ids(k);
  std::vector<uint32_t> out_start(k);
  Gather64(ids.data(), sel.data(), k, out_ids.data());
  Gather32(start.data(), sel.data(), k, out_start.data());

  // Reference: plain row-at-a-time filter.
  size_t want_k = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool hit =
        start[i] < 60 && end[i] > 20 && start[i] < end[i] && ids[i] == 3;
    if (!hit) continue;
    ASSERT_LT(want_k, k);
    EXPECT_EQ(out_ids[want_k], ids[i]);
    EXPECT_EQ(out_start[want_k], start[i]);
    ++want_k;
  }
  EXPECT_EQ(want_k, k);
}

}  // namespace
}  // namespace rdftx::simd
