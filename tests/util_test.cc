#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/bitvector.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {
namespace {

// ---------------------------------------------------------------- Slice --

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.remove_suffix(1);
  EXPECT_EQ(s.ToString(), "ll");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

TEST(SliceTest, BinaryDataSafe) {
  const char raw[] = {'\0', '\xff', '\x01'};
  Slice s(raw, 3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToString().size(), 3u);
}

// --------------------------------------------------------------- Status --

TEST(StatusTest, Classification) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

TEST(StatusTest, MessageFormatting) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_EQ(Status::NotFound("a", "b").ToString(), "NotFound: a: b");
}

// --------------------------------------------------------------- Coding --

TEST(CodingTest, Fixed) {
  std::string s;
  PutFixed32(&s, 0xdeadbeef);
  PutFixed64(&s, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(s.data() + 4), 0x0123456789abcdefull);
}

TEST(CodingTest, Varint32Roundtrip) {
  std::string s;
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 32; i++) {
    values.push_back(1u << i);
    values.push_back((1u << i) - 1);
  }
  std::string raw;  // the same values through the raw-pointer encoder
  for (uint32_t v : values) {
    PutVarint32(&s, v);
    char buf[5];
    raw.append(buf, EncodeVarint32To(buf, v) - buf);
  }
  EXPECT_EQ(raw, s);
  Slice input(s);
  for (uint32_t expected : values) {
    uint32_t v;
    ASSERT_TRUE(GetVarint32(&input, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64Roundtrip) {
  std::string s;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  ~uint64_t{0}, uint64_t{1} << 63};
  for (uint64_t v : values) {
    PutVarint64(&s, v);
  }
  Slice input(s);
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&input, &v));
    EXPECT_EQ(v, expected);
  }
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string s;
  PutVarint32(&s, 1u << 28);
  s.resize(s.size() - 1);
  Slice input(s);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&input, &v));
}

TEST(CodingTest, OverlongVarintRejected) {
  // A varint32 is at most 5 bytes and a varint64 at most 10; an attacker
  // can pad with 0x80 continuation bytes forever, and the decoders must
  // stop at the width limit instead of running off into adjacent memory.
  const std::string overlong32(6, '\x80');
  uint32_t v32;
  EXPECT_EQ(GetVarint32Ptr(overlong32.data(),
                           overlong32.data() + overlong32.size(), &v32),
            nullptr);

  const std::string overlong64(11, '\x80');
  uint64_t v64;
  EXPECT_EQ(GetVarint64Ptr(overlong64.data(),
                           overlong64.data() + overlong64.size(), &v64),
            nullptr);

  // Slice-level wrappers reject the same encodings without consuming input.
  Slice in32(overlong32);
  EXPECT_FALSE(GetVarint32(&in32, &v32));
  Slice in64(overlong64);
  EXPECT_FALSE(GetVarint64(&in64, &v64));
}

TEST(CodingTest, VarintStraddlingLimitRejected) {
  // All continuation bytes up to `limit`: the decoder must notice the
  // encoding runs past the end of the buffer and return nullptr rather
  // than reading beyond limit.
  const std::string buf(16, '\x80');
  for (size_t limit = 1; limit <= 5; limit++) {
    uint32_t v32;
    EXPECT_EQ(GetVarint32Ptr(buf.data(), buf.data() + limit, &v32), nullptr)
        << "limit " << limit;
  }
  for (size_t limit = 1; limit <= 10; limit++) {
    uint64_t v64;
    EXPECT_EQ(GetVarint64Ptr(buf.data(), buf.data() + limit, &v64), nullptr)
        << "limit " << limit;
  }
  // Zero-length input: nothing to decode.
  uint32_t v32;
  EXPECT_EQ(GetVarint32Ptr(buf.data(), buf.data(), &v32), nullptr);
}

TEST(CodingTest, CheckedFixedDecoders) {
  std::string s;
  PutFixed32(&s, 0xdeadbeefu);
  PutFixed64(&s, 0x0123456789abcdefull);

  Slice input(s);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&input, &v32));
  EXPECT_EQ(v32, 0xdeadbeefu);
  ASSERT_TRUE(GetFixed64(&input, &v64));
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(input.empty());

  // Too-short inputs fail without consuming anything.
  Slice short32("abc", 3);
  EXPECT_FALSE(GetFixed32(&short32, &v32));
  EXPECT_EQ(short32.size(), 3u);
  Slice short64("abcdefg", 7);
  EXPECT_FALSE(GetFixed64(&short64, &v64));
  EXPECT_EQ(short64.size(), 7u);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("hello"));
  PutLengthPrefixedSlice(&s, Slice(""));
  Slice input(s);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &b));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
}

// --------------------------------------------------------------- CRC32C --

TEST(Crc32cTest, KnownValues) {
  // Standard test vector: 32 zero bytes.
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);
  // "123456789" -> 0xe3069283 (Castagnoli check value).
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is lsmlab";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t split = crc32c::Value(data.data(), 5);
  split = crc32c::Extend(split, data.data() + 5, data.size() - 5);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundtrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, ~0u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

// --------------------------------------------------------------- Random --

TEST(RandomTest, DeterministicPerSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(2);
  for (int i = 0; i < 10000; i++) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ----------------------------------------------------------------- Hash --

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("abc", 3), Hash64("abc", 3));
  EXPECT_NE(Hash64("abc", 3, 1), Hash64("abc", 3, 2));
  EXPECT_NE(Hash64("abc", 3), Hash64("abd", 3));
}

TEST(HashTest, AllLengthsCovered) {
  // Exercise every tail-handling branch.
  std::string data(100, 'x');
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 64; len++) {
    hashes.insert(Hash64(data.data(), len));
  }
  EXPECT_EQ(hashes.size(), 65u);  // no collisions among lengths
}

// ---------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocatesUsableMemory) {
  Arena arena;
  std::vector<std::pair<char*, size_t>> allocs;
  Random rng(3);
  for (int i = 0; i < 1000; i++) {
    const size_t n = 1 + rng.Uniform(300);
    char* p = arena.Allocate(n);
    memset(p, static_cast<int>(i & 0xff), n);
    allocs.emplace_back(p, n);
  }
  // All blocks retain their bytes (no overlap).
  for (size_t i = 0; i < allocs.size(); i++) {
    for (size_t j = 0; j < allocs[i].second; j++) {
      EXPECT_EQ(static_cast<unsigned char>(allocs[i].first[j]), i & 0xff);
    }
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(ArenaTest, AlignedAllocation) {
  Arena arena;
  for (int i = 0; i < 100; i++) {
    arena.Allocate(1);  // misalign the bump pointer
    char* p = arena.AllocateAligned(16);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
  }
}

// A lone thread bumps through one block at a time: small allocations share
// 4 KiB blocks, and a large one gets its own block.
TEST(ArenaTest, SingleThreadMemoryUsage) {
  Arena arena;
  EXPECT_EQ(arena.MemoryUsage(), 0u);
  const size_t block = 4096 + sizeof(char*);
  for (int i = 0; i < 40; i++) {
    arena.Allocate(100);  // 40 * 100 bytes fit one block
  }
  EXPECT_EQ(arena.MemoryUsage(), block);
  arena.Allocate(200);  // no longer fits: a second block
  EXPECT_EQ(arena.MemoryUsage(), 2 * block);
  arena.Allocate(5000);  // large: its own block
  EXPECT_EQ(arena.MemoryUsage(), 2 * block + 5000 + sizeof(char*));
}

// Any number of threads may allocate at once; every thread's bytes stay
// intact (no two allocations overlap) and every byte is accounted for.
TEST(ArenaTest, ConcurrentAllocationFromManyThreads) {
  Arena arena;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::pair<char*, size_t>>> allocs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (int i = 0; i < kPerThread; i++) {
        const size_t n = 1 + rng.Uniform(i % 50 == 0 ? 3000 : 200);
        char* p = (i % 3 == 0) ? arena.AllocateAligned(n) : arena.Allocate(n);
        memset(p, 'a' + t, n);
        allocs[t].emplace_back(p, n);
      }
    });
  }
  for (auto& th : threads) th.join();

  size_t total = 0;
  for (int t = 0; t < kThreads; t++) {
    for (const auto& [p, n] : allocs[t]) {
      total += n;
      for (size_t j = 0; j < n; j++) {
        ASSERT_EQ(p[j], static_cast<char>('a' + t));
      }
    }
  }
  EXPECT_GE(arena.MemoryUsage(), total);
}

// Threads share one bump block: a few small allocations from many threads
// fill one block, as they would from one thread.
TEST(ArenaTest, ManyThreadsShareOneBlock) {
  Arena arena;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&arena] {
      for (int i = 0; i < 10; i++) {
        arena.AllocateAligned(24);
        arena.Allocate(7);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(arena.MemoryUsage(), 4096 + sizeof(char*));
}

// One thread interleaving many arenas (one active memtable per shard) uses
// each arena as if it were the only one.
TEST(ArenaTest, InterleavedArenasFillTheirOwnBlocks) {
  constexpr int kArenas = 16;
  std::vector<std::unique_ptr<Arena>> arenas;
  for (int a = 0; a < kArenas; a++) {
    arenas.push_back(std::make_unique<Arena>());
  }
  for (int i = 0; i < 40; i++) {
    for (auto& arena : arenas) {
      arena->Allocate(100);
    }
  }
  for (auto& arena : arenas) {
    EXPECT_EQ(arena->MemoryUsage(), 4096 + sizeof(char*));
  }
}

// ------------------------------------------------------------ BitVector --

TEST(BitVectorTest, RankMatchesNaive) {
  Random rng(11);
  BitVector bv;
  std::vector<bool> naive;
  for (int i = 0; i < 5000; i++) {
    const bool bit = rng.OneIn(3);
    bv.PushBack(bit);
    naive.push_back(bit);
  }
  bv.BuildRank();
  size_t ones = 0;
  for (size_t i = 0; i <= naive.size(); i++) {
    EXPECT_EQ(bv.Rank1(i), ones) << "at " << i;
    EXPECT_EQ(bv.Rank0(i), i - ones);
    if (i < naive.size() && naive[i]) {
      ones++;
    }
  }
}

TEST(BitVectorTest, SelectInvertsRank) {
  Random rng(12);
  BitVector bv;
  for (int i = 0; i < 3000; i++) {
    bv.PushBack(rng.OneIn(5));
  }
  bv.BuildRank();
  for (size_t k = 0; k < bv.OneCount(); k++) {
    const size_t pos = bv.Select1(k);
    EXPECT_TRUE(bv.Get(pos));
    EXPECT_EQ(bv.Rank1(pos), k);
  }
  EXPECT_EQ(bv.Select1(bv.OneCount()), bv.size());
}

// ------------------------------------------------------------ Histogram --

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) {
    h.Add(i);
  }
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Average(), 50.5, 0.01);
  EXPECT_NEAR(h.Median(), 50, 10);
  EXPECT_GE(h.Percentile(99), h.Percentile(50));
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Add(1);
  b.Add(100);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.Min(), 1);
  EXPECT_DOUBLE_EQ(a.Max(), 100);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Min(), 0);
  EXPECT_DOUBLE_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.Average(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0);
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  a.Add(3);
  a.Add(7);

  // Merging an empty histogram in must not disturb any statistic...
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.Min(), 3);
  EXPECT_DOUBLE_EQ(a.Max(), 7);
  EXPECT_DOUBLE_EQ(a.Sum(), 10);

  // ...and merging into an empty one must adopt them wholesale.
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_DOUBLE_EQ(b.Min(), 3);
  EXPECT_DOUBLE_EQ(b.Max(), 7);
  EXPECT_DOUBLE_EQ(b.Sum(), 10);
}

TEST(HistogramTest, SingleSamplePercentilesCollapse) {
  Histogram h;
  h.Add(42);
  // Every percentile of a one-sample distribution is that sample.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 42);
  EXPECT_DOUBLE_EQ(h.Median(), 42);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 42);
  EXPECT_DOUBLE_EQ(h.Min(), 42);
  EXPECT_DOUBLE_EQ(h.Max(), 42);
  EXPECT_DOUBLE_EQ(h.Average(), 42);
}

TEST(HistogramTest, NegativeSamples) {
  Histogram h;
  h.Add(-10);
  h.Add(-5);
  EXPECT_DOUBLE_EQ(h.Min(), -10);
  EXPECT_DOUBLE_EQ(h.Max(), -5);
  EXPECT_DOUBLE_EQ(h.Average(), -7.5);
  // Percentiles stay within the observed range (both samples land in the
  // lowest bucket, so interpolation must not escape above max_ or below
  // min_).
  EXPECT_GE(h.Percentile(0), -10);
  EXPECT_LE(h.Percentile(100), -5);
  EXPECT_GE(h.Median(), h.Min());
  EXPECT_LE(h.Median(), h.Max());
}

TEST(HistogramTest, OverflowBucketPercentiles) {
  Histogram h;
  // Beyond the last finite bucket limit (~1e12): lands in the overflow
  // bucket, whose right edge is the observed max.
  h.Add(5e12);
  h.Add(8e12);
  EXPECT_DOUBLE_EQ(h.Max(), 8e12);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 8e12);
  const double p50 = h.Median();
  EXPECT_GE(p50, h.Min());
  EXPECT_LE(p50, h.Max());
  // Must be finite even though the bucket's nominal limit is +inf.
  EXPECT_LT(h.Percentile(99), std::numeric_limits<double>::infinity());
}

TEST(HistogramTest, MergedPercentilesCoverBothSources) {
  Histogram lo, hi;
  for (int i = 0; i < 100; i++) {
    lo.Add(1);
    hi.Add(1000);
  }
  lo.Merge(hi);
  EXPECT_EQ(lo.Count(), 200u);
  EXPECT_LE(lo.Percentile(25), 2.0);
  EXPECT_GE(lo.Percentile(75), 800.0);
}

// ----------------------------------------------------------- Comparator --

TEST(ComparatorTest, ShortestSeparator) {
  const Comparator* cmp = BytewiseComparator();
  std::string start = "abcdef";
  cmp->FindShortestSeparator(&start, Slice("abzzzz"));
  EXPECT_LT(Slice("abcdef").compare(Slice(start)), 0);
  EXPECT_LT(Slice(start).compare(Slice("abzzzz")), 0);
  EXPECT_LE(start.size(), 6u);
}

TEST(ComparatorTest, SeparatorNoopWhenPrefix) {
  const Comparator* cmp = BytewiseComparator();
  std::string start = "ab";
  cmp->FindShortestSeparator(&start, Slice("abc"));
  EXPECT_EQ(start, "ab");
}

TEST(ComparatorTest, ShortSuccessor) {
  const Comparator* cmp = BytewiseComparator();
  std::string key = "abc";
  cmp->FindShortSuccessor(&key);
  EXPECT_GT(Slice(key).compare(Slice("abc")), 0);
  std::string all_ff = "\xff\xff";
  cmp->FindShortSuccessor(&all_ff);
  EXPECT_EQ(all_ff, "\xff\xff");  // unchanged
}

}  // namespace
}  // namespace lsmlab
