#!/usr/bin/env bash
# Verifies clang's thread-safety analysis over the lsmlab annotations.
#
# Two halves:
#   1. Positive: every translation unit in src/ passes
#      -Wthread-safety -Werror=thread-safety (syntax-only; no link, so no
#      gtest/benchmark needed).
#   2. Negative: a seeded violation — writing a GUARDED_BY member without
#      holding the mutex — must FAIL to compile. This proves the analysis
#      is actually firing, not silently disabled (e.g. by a broken macro
#      guard in thread_annotations.h).
#
# Requires clang++; skips (exit 0) with a notice when it is unavailable,
# since the annotations are no-ops under gcc and there is nothing to check.

set -u
cd "$(dirname "$0")/.."

CLANGXX="${CLANGXX:-clang++}"
if ! command -v "$CLANGXX" >/dev/null 2>&1; then
  echo "check_thread_safety: SKIP ($CLANGXX not found; analysis is clang-only)"
  exit 0
fi

# LSMLAB_DEBUG_CHECKS=1 (what a Debug lsmlab target exports) keeps the
# debug-only lock bookkeeping in the analyzed code.
FLAGS=(-std=c++20 -Isrc -DLSMLAB_DEBUG_CHECKS=1 -Wthread-safety
       -Werror=thread-safety -fsyntax-only)

echo "== positive: src/ must pass -Wthread-safety =="
fail=0
while IFS= read -r tu; do
  if ! "$CLANGXX" "${FLAGS[@]}" "$tu"; then
    echo "FAIL: $tu"
    fail=1
  fi
done < <(find src -name '*.cc' | sort)
if [ "$fail" -ne 0 ]; then
  echo "check_thread_safety: FAIL (thread-safety warnings in src/)"
  exit 1
fi
echo "OK"

echo "== negative: seeded unguarded access must be rejected =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/seeded_violation.cc" <<'EOF'
#include "util/mutex.h"

namespace lsmlab {

class Counter {
 public:
  // BUG (deliberate): touches value_ without taking mu_. The analysis must
  // reject this translation unit; if it compiles, the annotations are dead.
  void Increment() { value_++; }

 private:
  Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

void Use() { Counter().Increment(); }

}  // namespace lsmlab
EOF
if "$CLANGXX" "${FLAGS[@]}" "$tmp/seeded_violation.cc" 2> "$tmp/err.txt"; then
  echo "check_thread_safety: FAIL (seeded GUARDED_BY violation compiled" \
       "cleanly; the analysis is not firing)"
  exit 1
fi
if ! grep -q 'thread-safety' "$tmp/err.txt"; then
  echo "check_thread_safety: FAIL (seeded violation rejected, but not by" \
       "the thread-safety analysis:)"
  cat "$tmp/err.txt"
  exit 1
fi
echo "OK (rejected with: $(grep -m1 'thread-safety' "$tmp/err.txt" | head -c 120))"
echo "check_thread_safety: PASS"
