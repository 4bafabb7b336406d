#include "obs/perf_context.h"

namespace lsmlab {

namespace {

thread_local PerfContext t_perf_context;

/// Every counter with its dump name, in LSMLAB_PERF_CONTEXT_FIELDS order.
struct Field {
  const char* name;
  uint64_t PerfContext::*member;
};

constexpr Field kFields[] = {
#define LSMLAB_PERF_CONTEXT_ENTRY(field) {#field, &PerfContext::field},
    LSMLAB_PERF_CONTEXT_FIELDS(LSMLAB_PERF_CONTEXT_ENTRY)
#undef LSMLAB_PERF_CONTEXT_ENTRY
};

}  // namespace

PerfContext* GetPerfContext() { return &t_perf_context; }

PerfContext PerfContext::Delta(const PerfContext& since) const {
  PerfContext out;
  for (const Field& f : kFields) {
    out.*f.member = this->*f.member - since.*f.member;
  }
  return out;
}

std::string PerfContext::ToString(bool include_zero) const {
  std::string out;
  for (const Field& f : kFields) {
    const uint64_t value = this->*f.member;
    if (value == 0 && !include_zero) {
      continue;
    }
    out.append(f.name);
    out.push_back('=');
    out.append(std::to_string(value));
    out.push_back('\n');
  }
  return out;
}

}  // namespace lsmlab
