#ifndef LSMLAB_UTIL_CODING_H_
#define LSMLAB_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace lsmlab {

// Little-endian fixed-width and LEB128 varint encodings used throughout the
// on-disk formats (blocks, footers, WAL frames, manifest records).

inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));  // little-endian hosts only
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);

/// Writes a LEB128 varint32 to dst, which must have room for
/// VarintLength(value) bytes (at most 5). Returns a pointer just past the
/// last byte written.
char* EncodeVarint32To(char* dst, uint32_t value);

/// Appends a LEB128 varint32 to *dst (1-5 bytes).
void PutVarint32(std::string* dst, uint32_t value);
/// Appends a LEB128 varint64 to *dst (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);
/// Appends varint-length-prefixed bytes of `value` to *dst.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

/// Parses a varint32 from the front of *input, advancing it.
/// Returns false on malformed input.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// Checked fixed-width reads from the front of *input, advancing it.
/// Returns false when fewer than 4/8 bytes remain. Untrusted-byte decoders
/// must use these (or an explicitly bounds-annotated DecodeFixed*) so the
/// parser contract stays grep-enforceable; see tools/check_parsers.sh.
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);

/// Lower-level raw-pointer variants; return nullptr on failure, otherwise a
/// pointer just past the parsed varint.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

/// Number of bytes PutVarint{32,64} would emit for `value`.
int VarintLength(uint64_t value);

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_CODING_H_
