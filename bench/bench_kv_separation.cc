// E15 — Key-value separation (tutorial I-2; WiscKey [53], HashKV [12],
// DiffKV [49]).
//
// Claims: storing large values in a value log collapses compaction write
// amplification (pointers move, payloads don't) — the bigger the value,
// the bigger the win — while point reads pay one extra access and range
// scans lose locality (one random log read per result).

#include "bench_common.h"

namespace lsmlab {
namespace bench {
namespace {

void Run() {
  PrintHeader("E15 key-value separation (WiscKey)",
              "value_bytes,separation,write_amp,tree_bytes,vlog_bytes,"
              "existing_get_ios,scan100_ios,existing_get_ns");
  const size_t kTotalPayload = 24 << 20;  // equal payload per row
  for (size_t value_bytes : {64u, 256u, 1024u, 4096u}) {
    const size_t n = kTotalPayload / value_bytes;
    for (bool separate : {false, true}) {
      Options options;
      options.merge_policy = MergePolicy::kLeveling;
      options.size_ratio = 4;
      options.write_buffer_size = 256 << 10;
      options.max_file_size = 256 << 10;
      options.level0_compaction_trigger = 2;
      options.value_separation_threshold = separate ? 128 : 0;
      options.max_vlog_file_bytes = 4 << 20;
      TestDb db = LoadDb(options, n, value_bytes);

      DBStats stats = db.db->GetStats();
      const GetCost hit =
          MeasureGets(&db, n, 1000, /*existing=*/true);
      // Latency from a longer pass over other keys, so a separated Get's
      // extra value-log read shows in time as well as in I/Os.
      const GetCost timed =
          MeasureGets(&db, n, 20000, /*existing=*/true, 11);

      // 100-key range scans.
      Random rng(3);
      auto keys = LoadedKeys(n);
      const uint64_t io_before = db.io()->block_reads.load();
      const int kScans = 100;
      for (int i = 0; i < kScans; i++) {
        const uint64_t start = DecodeKey(keys[rng.Uniform(keys.size())]);
        std::vector<std::pair<std::string, std::string>> results;
        db.db->Scan({}, EncodeKey(start),
                    EncodeKey(start + (kKeyDomain / n) * 120), 100,
                    &results).IgnoreError();
      }
      const double scan_ios =
          static_cast<double>(db.io()->block_reads.load() - io_before) /
          kScans;

      std::printf("%zu,%s,%.2f,%llu,%llu,%.2f,%.1f,%.0f\n", value_bytes,
                  separate ? "on" : "off", stats.WriteAmplification(),
                  static_cast<unsigned long long>(stats.total_bytes),
                  static_cast<unsigned long long>(stats.value_log_bytes),
                  hit.ios_per_op, scan_ios, timed.ns_per_op);
    }
  }
  std::printf(
      "# expect: separation cuts write_amp toward ~1 as values grow (only\n"
      "# pointers are re-merged); point reads pay ~1 extra I/O; scans pay\n"
      "# ~1 random vlog I/O per returned entry — the WiscKey tradeoff.\n");
}

}  // namespace
}  // namespace bench
}  // namespace lsmlab

int main() { lsmlab::bench::Run(); }
