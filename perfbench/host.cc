// Host diagnostics printed with every result. They are for reading a noisy
// verdict back to the host, never for normalizing a metric.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gsps/common/random.h"
#include "perfbench.h"

namespace gsps::perfbench {

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {};
  // user nice system idle iowait irq softirq steal
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {
    int64_t jiffies = 0;
    if (!(in >> jiffies)) return {};
    times.total += jiffies;
    if (field == 7) times.steal = jiffies;
  }
  return times;
}

double MemoryProbeNs() {
  // One dependent load per 64-byte line of a 64 MiB buffer, visited in a
  // fixed random cycle (Sattolo), so every load waits on the previous one
  // and the hardware prefetchers cannot help.
  constexpr size_t kLineWords = 16;
  constexpr size_t kLines =
      (size_t{64} << 20) / (kLineWords * sizeof(uint32_t));
  constexpr int64_t kLoads = 2'000'000;
  std::vector<uint32_t> order(kLines);
  for (size_t i = 0; i < kLines; ++i) order[i] = static_cast<uint32_t>(i);
  Rng rng(1);
  for (size_t i = kLines - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i], order[j]);
  }
  std::vector<uint32_t> next(kLines * kLineWords, 0);
  for (size_t i = 0; i < kLines; ++i) {
    next[static_cast<size_t>(order[i]) * kLineWords] =
        order[(i + 1) % kLines] * static_cast<uint32_t>(kLineWords);
  }
  uint32_t at = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t k = 0; k < kLoads; ++k) at = next[at];
  const double seconds = SecondsSince(start);
  // Keep the chase observable so it cannot be optimized away.
  if (at == UINT32_MAX) std::printf("%u\n", at);
  return seconds * 1e9 / static_cast<double>(kLoads);
}

}  // namespace gsps::perfbench
