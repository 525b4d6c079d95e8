#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace cmap::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentSequences) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, SubstreamsAreIndependentOfParentDraws) {
  Rng a(7);
  Rng sub_before = a.substream(1, 2);
  for (int i = 0; i < 50; ++i) a.next_u64();
  Rng sub_after = a.substream(1, 2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sub_before.next_u64(), sub_after.next_u64());
  }
}

TEST(Rng, SubstreamsWithDifferentTagsDiffer) {
  Rng a(7);
  Rng s1 = a.substream(1, 0);
  Rng s2 = a.substream(2, 0);
  Rng s3 = a.substream(1, 1);
  EXPECT_NE(s1.next_u64(), s2.next_u64());
  Rng s1b = a.substream(1, 0);
  s1b.next_u64();
  EXPECT_NE(s1b.next_u64(), s3.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(29);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(31);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, UniformIntIsUnbiasedAcrossBuckets) {
  Rng r(37);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_int(0, 9)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

// ---- hash_normal_bound: the cheap upper bound on hash_normal ----

// Inverse of mix64 (undo each xorshift and odd multiply in turn), so a test
// can pick the hash whose uniform lands exactly where it wants it.
std::uint64_t unxorshift(std::uint64_t y, int k) {
  std::uint64_t x = y;
  for (int s = k; s < 64; s += k) x ^= y >> s;
  return x;
}

std::uint64_t inverse_of_odd(std::uint64_t m) {
  std::uint64_t inv = m;  // Newton's iteration doubles the correct bits
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
  return inv;
}

std::uint64_t unmix64(std::uint64_t y) {
  y = unxorshift(y, 31) * inverse_of_odd(0x94d049bb133111ebull);
  y = unxorshift(y, 27) * inverse_of_odd(0xbf58476d1ce4e5b9ull);
  return unxorshift(y, 30) - 0x9e3779b97f4a7c15ull;
}

// hash_normal's uniforms are u1 = ((mix64(h) >> 11) + 0.5) * 2^-53 and
// u2 = (mix64(h ^ kU2Salt) >> 11) * 2^-53; these build h from the 53-bit
// mantissa index of either one, with `low` filling the 11 discarded bits.
constexpr std::uint64_t kU2Salt = 0xabcdef12345ull;
std::uint64_t hash_with_u1_index(std::uint64_t index, std::uint64_t low) {
  return unmix64(index << 11 | (low & 0x7ff));
}
std::uint64_t hash_with_u2_index(std::uint64_t index, std::uint64_t low) {
  return unmix64(index << 11 | (low & 0x7ff)) ^ kU2Salt;
}

TEST(HashNormalBound, UnmixInvertsMix) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t y = rng.next_u64();
    ASSERT_EQ(mix64(unmix64(y)), y);
  }
}

TEST(HashNormalBound, DominatesOnTenMillionSeededHashes) {
  Rng rng(20081);
  int zero = 0;
  constexpr int kDraws = 10'000'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t h = rng.next_u64();
    const double b = hash_normal_bound(h);
    ASSERT_GE(b, hash_normal(h)) << "h=" << h;
    zero += b == 0.0;
  }
  // Half the keys have cos(2*pi*u2) <= 0; the bound must use that.
  EXPECT_NEAR(static_cast<double>(zero) / kDraws, 0.5, 0.001);
}

TEST(HashNormalBound, DominatesWhereTheCosineChangesSign) {
  // u2 within ~5e-13 of 1/4 and 3/4 on both sides: the computed cosine
  // there is a few ulps from 0 and may have either sign.
  Rng rng(5);
  for (const std::uint64_t quarter : {1ull << 51, 3ull << 51}) {
    for (std::int64_t k = -4096; k <= 4096; ++k) {
      const std::uint64_t h = hash_with_u2_index(
          quarter + static_cast<std::uint64_t>(k), rng.next_u64());
      const double u2 = static_cast<double>(mix64(h ^ kU2Salt) >> 11) *
                        0x1.0p-53;
      ASSERT_LE(std::abs(u2 - static_cast<double>(quarter) * 0x1.0p-53),
                1e-12);
      ASSERT_GE(hash_normal_bound(h), hash_normal(h)) << "k=" << k;
    }
  }
}

TEST(HashNormalBound, DominatesAtTheExtremesOfU1) {
  // The smallest u1 (2^-54) gives the largest |normal| hash_normal can
  // return; the largest (1, after rounding) makes both sides 0.
  constexpr std::uint64_t kTop = (1ull << 53) - 1;
  Rng rng(9);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    for (const std::uint64_t index : {k, kTop - k}) {
      const std::uint64_t h = hash_with_u1_index(index, rng.next_u64());
      ASSERT_EQ(mix64(h) >> 11, index);
      ASSERT_GE(hash_normal_bound(h), hash_normal(h)) << "index=" << index;
    }
  }
}

}  // namespace
}  // namespace cmap::sim
