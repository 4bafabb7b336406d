#include "dataset.h"

#include <algorithm>
#include <cstring>

#include "workload/keygen.h"

namespace perfbench {

namespace {

constexpr uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kMul2 = 0x94d049bb133111ebULL;

// Multiplicative inverse modulo 2^64 of an odd constant (Newton's method:
// each step doubles the number of correct low bits).
constexpr uint64_t InverseOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; i++) {
    x *= 2 - a * x;
  }
  return x;
}

static_assert(kMul1 * InverseOdd(kMul1) == 1);
static_assert(kMul2 * InverseOdd(kMul2) == 1);

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * kMul1;
  z = (z ^ (z >> 27)) * kMul2;
  return z ^ (z >> 31);
}

// Inverts x ^= x >> s for s >= 22 (three terms cover 64 bits).
uint64_t UnshiftXor(uint64_t x, int s) {
  uint64_t r = x;
  for (int shift = s; shift < 64; shift += s) {
    r ^= x >> shift;
  }
  return r;
}

uint64_t Unmix(uint64_t z) {
  z = UnshiftXor(z, 31);
  z *= InverseOdd(kMul2);
  z = UnshiftXor(z, 27);
  z *= InverseOdd(kMul1);
  return UnshiftXor(z, 30);
}

}  // namespace

uint64_t SplitMix::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix(state_);
}

Dataset::Dataset(uint64_t seed, uint64_t num_keys)
    : base_((seed & 0xffffffffULL) << 32), num_keys_(num_keys) {
  sorted_.reserve(num_keys_);
  for (uint64_t i = 0; i < num_keys_; i++) {
    sorted_.push_back(KeyNumber(i));
  }
  std::sort(sorted_.begin(), sorted_.end());
}

uint64_t Dataset::KeyNumber(uint64_t index) const { return Mix(base_ | index); }

std::string Dataset::Key(uint64_t index) const {
  return lsmlab::EncodeKey(KeyNumber(index));
}

uint64_t Dataset::IndexOf(const std::string& key) const {
  if (key.size() != 8) {
    return UINT64_MAX;
  }
  const uint64_t raw = Unmix(lsmlab::DecodeKey(key));
  if ((raw & ~0xffffffffULL) != base_) {
    return UINT64_MAX;
  }
  return raw & 0xffffffffULL;
}

void Dataset::Value(uint64_t index, uint32_t version, std::string* out) {
  out->resize(kValueSize);
  char* p = out->data();
  std::memcpy(p, &index, 8);
  std::memcpy(p + 8, &version, 4);
  SplitMix rng(index * 0x100000001b3ULL + version);
  for (size_t off = 12; off < kValueSize; off += 8) {
    const uint64_t w = rng.Next();
    std::memcpy(p + off, &w, std::min<size_t>(8, kValueSize - off));
  }
}

bool Dataset::ValueMatches(uint64_t index, uint32_t version,
                           const std::string& value) {
  std::string expected;
  Value(index, version, &expected);
  return value == expected;
}

}  // namespace perfbench
