#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's data set, derived entirely from the seed.
///
/// Key index `i` maps to the 8-byte big-endian key EncodeKey(Mix(seed32 <<
/// 32 | i)). Mix is a bijection on 64-bit integers, so distinct indexes
/// give distinct, uniformly spread keys, and a key read back from the DB
/// decodes to its index exactly. Indexes [0, num_keys) are loaded;
/// [num_keys, 2 * num_keys) are never written and serve as absent keys.
class Dataset {
 public:
  static constexpr size_t kValueSize = 100;

  Dataset(uint64_t seed, uint64_t num_keys);

  uint64_t num_keys() const { return num_keys_; }
  uint64_t KeyNumber(uint64_t index) const;
  std::string Key(uint64_t index) const;
  /// Index of an encoded key, or UINT64_MAX when it is not a key of this
  /// data set (wrong length, other seed).
  uint64_t IndexOf(const std::string& key) const;

  /// The value written for `index` at `version` (0 = loaded value).
  static void Value(uint64_t index, uint32_t version, std::string* out);
  static bool ValueMatches(uint64_t index, uint32_t version,
                           const std::string& value);

  /// Loaded key numbers in ascending order (for checking scans).
  const std::vector<uint64_t>& SortedKeys() const { return sorted_; }

  /// Bytes of live user data (key + value) after the load.
  uint64_t UserBytes() const { return num_keys_ * (8 + kValueSize); }

 private:
  uint64_t base_;
  uint64_t num_keys_;
  std::vector<uint64_t> sorted_;
};

/// splitmix64 step: a fast, well-mixed 64-bit generator for op streams.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
